"""The benchmark's four workloads.

A workload is built in two steps.  The constructor draws the inputs from
the seed and computes their reference values with numpy alone, before
holonome is imported.  ``build(hn)`` then turns those inputs into holonome
objects and returns one round of operations: a list of ``Op``s, each a
closure that calls the engine once and a check of what it returned.  Every
operation of a workload is of one kind, and its variants rotate in a fixed
order, so one round is the unit a run repeats.
"""

import os
import re
import shutil
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import references as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "src", "holonome", "scenarios")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Each converse operation uses one probe step from this set; a round visits
# every step once for every connection.
PROBE_STEPS = (1e-2, 5e-3, 2.5e-3, 1e-3)
# A probe reconstruction may miss the closed form by at most C h^2.
RECON_C = 1.0
# Connections of the converse workloads: (closed-form kind, params, builtin name).
CONVERSE_CONNECTIONS = (
    ("abelian-area", (1.5,), "abelian-area(1.5)"),
    ("constant-so3", (0.8, 0.6), "constant-so3(0.8,0.6)"),
    ("pure-gauge", (), "pure-gauge"),
)
ANGLE_TOL = 1e-7
MATRIX_TOL = 1e-9


@dataclass
class Op:
    """One engine call and the check of its output.

    ``check`` returns None when the output is right, else a message."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


class ForwardLoops:
    """Holonomy of closed loops at h = 1e-4 (about 1e4 RK4 steps each)."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.latitude_r = rng.uniform(0.5, 1.5)
        self.latitude_phase = rng.uniform(0.0, 2.0 * np.pi)
        # off-centre circle that leaves chart 0's box [-4, 4]^2 at x1 = 4
        self.twochart_c = (rng.uniform(2.8, 3.2), rng.uniform(-0.3, 0.3))
        self.twochart_r = rng.uniform(1.8, 2.2)
        self.abelian_c = tuple(rng.uniform(-0.3, 0.3, 2))
        self.abelian_r = rng.uniform(0.6, 1.2)
        xs = np.sort(rng.uniform(-1.5, 1.5, 2))
        ys = np.sort(rng.uniform(-1.5, 1.5, 2))
        xs[1] = max(xs[1], xs[0] + 0.5)
        ys[1] = max(ys[1], ys[0] + 0.5)
        self.corners = [(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1]), (xs[0], ys[1])]
        # radii where the doubling controller settles at its largest step
        self.doubling_r = rng.uniform(0.4, 0.6)

        self.ref_latitude = ref.sphere_loop_angle((0.0, 0.0), self.latitude_r)
        self.ref_twochart = ref.sphere_loop_angle(self.twochart_c, self.twochart_r)
        self.ref_abelian = ref.abelian_loop_angle(1.5, self.abelian_r)
        self.ref_rectangle = ref.rectangle_holonomy(0.8, 0.6, self.corners)
        self.ref_doubling = ref.sphere_loop_angle((0.0, 0.0), self.doubling_r)

    def build(self, hn):
        stereo = hn.builtin_connection("levi-civita-s2-stereo")
        twochart = hn.builtin_connection("levi-civita-s2-twochart")
        abelian = hn.builtin_connection("abelian-area(1.5)")
        so3 = hn.builtin_connection("constant-so3(0.8,0.6)")
        fine = hn.SolverConfig(h=1e-4)
        doubling = hn.SolverConfig(method="rk4-doubling", h=1e-2)

        p0 = self.latitude_phase
        latitude = hn.arc_path(0, (0.0, 0.0), self.latitude_r, p0, p0 + 2.0 * np.pi)
        crossing = hn.arc_path(0, self.twochart_c, self.twochart_r, np.pi, 3.0 * np.pi)
        circle = hn.arc_path(0, self.abelian_c, self.abelian_r, 0.0, 2.0 * np.pi)
        pts = [hn.ChartPoint(0, c) for c in self.corners]
        legs = [hn.line_path(a, b.coords) for a, b in zip(pts, pts[1:] + pts[:1])]
        rectangle = hn.juxtapose(hn.juxtapose(legs[0], legs[1]), hn.juxtapose(legs[2], legs[3]))
        small = hn.arc_path(0, (0.0, 0.0), self.doubling_r, 0.0, 2.0 * np.pi)

        def angle_check(want):
            def check(res):
                gap = ref.angle_gap(res.angle, want)
                return None if gap <= ANGLE_TOL else f"angle off by {gap:.3e}"
            return check

        def crossing_check(res):
            if res.transport.end.chart_id != 1:
                return "loop did not cross into chart 1"
            return angle_check(self.ref_twochart)(res)

        def rectangle_check(res):
            dev = np.linalg.norm(res.g.matrix - self.ref_rectangle)
            return None if dev <= MATRIX_TOL else f"holonomy off by {dev:.3e}"

        return [
            Op("latitude", lambda: hn.holonomy(stereo, latitude, fine), angle_check(self.ref_latitude)),
            Op("twochart", lambda: hn.holonomy(twochart, crossing, fine), crossing_check),
            Op("abelian", lambda: hn.holonomy(abelian, circle, fine), angle_check(self.ref_abelian)),
            Op("rectangle", lambda: hn.holonomy(so3, rectangle, fine), rectangle_check),
            Op("doubling", lambda: hn.holonomy(stereo, small, doubling), angle_check(self.ref_doubling)),
        ]


def _grid_points(center, half, n):
    ax = np.linspace(-half, half, n)
    mesh = np.meshgrid(center[0] + ax, center[1] + ax, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class _Converse:
    """Shared shape of the two reconstruction workloads: one round visits
    every probe step, in a seeded order, on every connection."""

    grid_n = 0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.grids = [
            _grid_points(rng.uniform(-0.4, 0.4, 2), rng.uniform(0.5, 1.0), self.grid_n)
            for _ in CONVERSE_CONNECTIONS
        ]
        self.steps = [PROBE_STEPS[i] for i in rng.permutation(len(PROBE_STEPS))]
        self.truth = [
            ref.coefficients(kind, params, grid)
            for (kind, params, _), grid in zip(CONVERSE_CONNECTIONS, self.grids)
        ]

    def oracle(self, hn, conn, kind, params):
        raise NotImplementedError

    def build(self, hn):
        ops = []
        per_conn = []
        for (kind, params, name), pts in zip(CONVERSE_CONNECTIONS, self.grids):
            conn = hn.builtin_connection(name)
            grid = [hn.ChartPoint(0, p) for p in pts]
            per_conn.append((kind, conn, grid, self.oracle(hn, conn, kind, params)))
        for h in self.steps:
            for (kind, conn, grid, oracle), truth in zip(per_conn, self.truth):
                ops.append(Op(
                    f"{kind}@{h:g}",
                    lambda o=oracle, g=grid, h=h, c=conn: hn.reconstruct_connection(o, g, h, c.group),
                    lambda table, t=truth, h=h: _check_table(table, t, h),
                ))
        return ops


def _check_table(table, truth, h):
    if table.dropped:
        return f"{len(table.dropped)} grid points dropped"
    n = len(table.points)
    if len(table.entries) != 2 * n:
        return f"{len(table.entries)} entries for {n} points"
    worst = max(
        np.linalg.norm(table.entries[(i, mu)] - truth[mu][i]) for i in range(n) for mu in range(2)
    )
    bound = RECON_C * h * h
    return None if worst <= bound else f"coefficient error {worst:.3e} > {bound:.3e}"


class ConverseEngine(_Converse):
    """reconstruct_connection over a 5x5 grid with the engine's own oracle,
    using roundtrip_report's solver (h = 0.02, project_every = 4)."""

    grid_n = 5

    def oracle(self, hn, conn, kind, params):
        return hn.engine_oracle(conn, hn.SolverConfig(h=0.02, project_every=4))


class ConverseBlackbox(_Converse):
    """reconstruct_connection over a 9x9 grid with an oracle that never calls
    the engine: exact closed-form transport along straight probes."""

    grid_n = 9

    def oracle(self, hn, conn, kind, params):
        group = conn.group

        def oracle(gamma):
            a = hn.path_point(gamma, 0.0)
            b = hn.path_point(gamma, 1.0)
            mid = hn.path_point(gamma, 0.5)
            if np.max(np.abs(mid.coords - 0.5 * (a.coords + b.coords))) > 1e-12:
                raise ValueError("the closed-form oracle only answers straight probes")
            g = ref.straight_transport(kind, params, a.coords, b.coords)
            return SimpleNamespace(start=a, end=b, g=hn.GroupElement(g, group))

        return oracle


# The three scenarios of comparable cost form the timed rotation, in this
# order, so the warm-up is always the first; the three light ones (about
# 10 ms) would form a second population, so they run once per run as a
# check only.
TIMED_SCENARIOS = ("axioms-abelian", "flat-gauge-trivial", "roundtrip-so3")
LIGHT_SCENARIOS = ("minimal-flat", "inline-connection", "sphere-latitude")
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def _output_files(out_dir):
    """Bytes of every file a scenario run wrote, report.json without its
    timestamp."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        files[name] = _TIMESTAMP.sub(b'"timestamp": ""', data) if name == "report.json" else data
    return files


class LabScenarios:
    """In-process run_scenario of a shipped scenario into a fresh directory.

    The inputs are the shipped files, so the seed is not used."""

    def __init__(self, seed):
        self.ref_sphere = ref.sphere_loop_angle((0.0, 0.0), np.sqrt(3.0))
        self.run_dir = os.path.join(OUT_DIR, f"lab-{os.getpid()}")
        self.count = 0
        self.first = {}

    def fresh_dir(self):
        self.count += 1
        return os.path.join(self.run_dir, f"op-{self.count:05d}")

    def load(self, hn, name):
        return hn.load_scenario(os.path.join(SCENARIO_DIR, f"{name}.json"))

    def build(self, hn):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        ops = []
        for name in TIMED_SCENARIOS:
            scenario = self.load(hn, name)

            def run(s=scenario):
                out = self.fresh_dir()
                code, report = hn.run_scenario(s, out)
                return code, report, out

            ops.append(Op(name, run, lambda res, n=name, s=scenario: self.check(n, s, res)))
        return ops

    def check(self, name, scenario, res):
        """Exit code 0, every declared expectation held, and the same bytes
        as this scenario's first run apart from the timestamp.  Removes the
        run's output directory."""
        code, report, out = res
        files = _output_files(out)
        shutil.rmtree(out)
        if code != 0:
            return f"{name}: exit code {code}"
        entries = report["tasks"]
        if len(entries) != len(scenario.tasks):
            return f"{name}: {len(entries)} report entries for {len(scenario.tasks)} tasks"
        for task, entry in zip(scenario.tasks, entries):
            if entry["error"] is not None:
                return f"{name}: task {entry['index']} raised {entry['error']['type']}"
            if "expect" in task and entry["passed"] is not True:
                return f"{name}: task {entry['index']} missed its expectation"
        if name == "sphere-latitude":
            gap = ref.angle_gap(entries[0]["result"]["angle"], self.ref_sphere)
            if gap > 1e-6:
                return f"{name}: angle off the Gauss-Bonnet value by {gap:.3e}"
        if self.first.setdefault(name, files) != files:
            return f"{name}: output differs from the first run beyond the timestamp"
        return None

    def final_checks(self, hn):
        """Run each light scenario twice through the same checks."""
        errors = []
        for name in LIGHT_SCENARIOS:
            scenario = self.load(hn, name)
            for _ in range(2):
                out = self.fresh_dir()
                code, report = hn.run_scenario(scenario, out)
                err = self.check(name, scenario, (code, report, out))
                if err:
                    errors.append(err)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        return errors


WORKLOADS = {
    "forward_loops": ForwardLoops,
    "converse_engine": ConverseEngine,
    "converse_blackbox": ConverseBlackbox,
    "lab_scenarios": LabScenarios,
}
