"""Print the microseconds per call of the small calls that a reconstruction
probe and a one-point path evaluation are made of, and of one integrator
pass, so that two checkouts can be compared on their cost per call:

    python tools/call_costs.py [src-dir] [--repeat N]

src-dir is the holonome source tree to import (default: this checkout's
src).  Each figure is the best of N timeit repeats (default 7) of 1000
calls, or of as many as fill about 0.2 s when that is fewer (a whole
reconstruction or integrator pass), all in one process.  The calls:

- path_point on a straight line and on a circular arc;
- _line_segment, which builds one straight probe path;
- GroupElement of an SO(2) and of an SO(3) matrix, with its checks;
- frobenius and _check_branch of a 3x3 matrix;
- _probes of one unit vector at one point, which builds its one centred
  probe path, x - hv -> x + hv;
- an arc's Segment.point_at, a one-point program run;
- _rk4_pass of one 1000-step arc from the identity, on abelian-area(1.5)
  (SO(2), whose steps are angles) and on constant-so3(0.8,0.6): the field
  on 2001 points, then the step and product layer, fine and coarse;
- _vertical_parts of 50 SO(3) probe differences, near the identity as a
  probe's are: the stacked log, the translation to p and the skew check;
- one reconstruct_connection of constant-so3(0.8,0.6) on a 5x5 grid with
  engine_oracle (solver h = 0.02) as its oracle, 50 probes in all;
- one reconstruct_connection of abelian-area(1.5) on a 9x9 grid with a
  closed-form oracle (blackbox below), 162 probes in all.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = 1000
SPAN = 0.2  # a repeat runs fewer than NUMBER calls when they would take longer


def blackbox(hn, group, strength):
    """A transport oracle that never calls the engine, as the benchmark's
    converse_blackbox oracle is: it reads each straight probe's start, end
    and midpoint with path_point and answers the exact abelian-area
    transport, exp(-strength/2 (a1 d2 - a2 d1) J) along a + t d, as a
    GroupElement."""
    import math
    from types import SimpleNamespace

    def oracle(gamma):
        a, b, mid = (hn.path_point(gamma, t) for t in (0.0, 1.0, 0.5))
        (a1, a2), (b1, b2), (m1, m2) = a.coords, b.coords, mid.coords
        if max(abs(m1 - 0.5 * (a1 + b1)), abs(m2 - 0.5 * (a2 + b2))) > 1e-12:
            raise ValueError("the closed-form oracle only answers straight probes")
        theta = -0.5 * strength * (a1 * (b2 - a2) - a2 * (b1 - a1))
        c, s = math.cos(theta), math.sin(theta)
        return SimpleNamespace(start=a, end=b, g=hn.GroupElement([[c, -s], [s, c]], group))

    return oracle


def calls(hn):
    """(name, zero-argument callable) of every call timed."""
    import numpy as np
    from holonome import groups, paths, reconstruction

    transport = importlib.import_module("holonome.transport")  # holonome.transport is the function

    so2, so3 = hn.StructureGroup("SO", 2), hn.StructureGroup("SO", 3)
    e1, e2, e3 = groups.so3_basis()
    r2 = groups.rotation2(0.3)
    r3 = hn.group_exp(hn.AlgebraElement(0.2 * e1 - 0.1 * e2 + 0.3 * e3, so3)).matrix
    line = hn.line_path(hn.ChartPoint(0, [0.1, 0.2]), [0.4, -0.3])
    arc = hn.arc_path(0, (0.0, 0.0), 1.1, 0.4, 2.0)
    coords, step = np.array([0.1, 0.2]), np.array([1e-3, 0.0])
    at, unit = hn.ChartPoint(0, coords), [[1.0, 0.0]]
    # a tree whose _probes takes one point, not a list of them
    probe_at = [at] if "points" in inspect.signature(reconstruction._probes).parameters else at

    def rk4_pass(name):
        conn = hn.builtin_connection(name)
        return lambda: transport._rk4_pass(conn, arc.segments, 1000, np.eye(conn.group.k)[None])

    so3_conn = hn.builtin_connection("constant-so3(0.8,0.6)")
    oracle = hn.engine_oracle(so3_conn, hn.SolverConfig(h=0.02))
    grid = paths.box_grid(0, [-0.6, -0.6], [0.6, 0.6], 5)
    omegas = np.random.default_rng(0).normal(scale=0.02, size=(50, 3))
    diffs = [hn.group_exp(hn.AlgebraElement(a * e1 + b * e2 + c * e3, so3)) for a, b, c in omegas]
    # a tree whose _vertical_parts reads the answers' matrices, not their elements
    if "formed" in inspect.signature(reconstruction._vertical_parts).parameters:
        diffs = [g.matrix for g in diffs]
    eye3 = hn.identity_element(so3)
    grid9 = paths.box_grid(0, [-0.6, -0.6], [0.6, 0.6], 9)
    closed = blackbox(hn, so2, 1.5)

    return [
        ("path_point line", lambda: hn.path_point(line, 0.5)),
        ("path_point arc", lambda: hn.path_point(arc, 0.5)),
        ("_line_segment", lambda: paths._line_segment(0, coords, step)),
        ("GroupElement SO(2)", lambda: hn.GroupElement(r2, so2)),
        ("GroupElement SO(3)", lambda: hn.GroupElement(r3, so3)),
        ("frobenius", lambda: groups.frobenius(r3)),
        ("_check_branch", lambda: groups._check_branch(r3)),
        ("_probes", lambda: reconstruction._probes(probe_at, unit, 1e-3)),
        ("Segment.point_at arc", lambda: arc.segments[0].point_at(0.3)),
        ("_rk4_pass SO(2) n=1000", rk4_pass("abelian-area(1.5)")),
        ("_rk4_pass SO(3) n=1000", rk4_pass("constant-so3(0.8,0.6)")),
        ("_vertical_parts 50 SO(3)", lambda: reconstruction._vertical_parts(diffs, 1e-3, eye3)),
        ("reconstruct 5x5 SO(3)", lambda: hn.reconstruct_connection(oracle, grid, 1e-3, so3)),
        ("reconstruct 9x9 SO(2) black box",
         lambda: hn.reconstruct_connection(closed, grid9, 1e-3, so2)),
    ]


def per_call_us(fn, repeat):
    """Best of `repeat` timeit repeats of `number` calls, in microseconds
    per call: NUMBER calls, or as many as one first call says fill about
    SPAN seconds when that is fewer."""
    timer = timeit.Timer(fn)
    number = max(1, min(NUMBER, int(SPAN / max(timer.timeit(1), 1e-9))))
    return min(timer.repeat(repeat, number)) / number * 1e6


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv[1:])
    # one thread, as the benchmark runs: pin BLAS before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(args.src).resolve()))
    import holonome as hn

    print(f"{'call':32s} {'us/call':>8s}")
    for name, fn in calls(hn):
        print(f"{name:32s} {per_call_us(fn, args.repeat):8.2f}")


if __name__ == "__main__":
    main(sys.argv)
