"""Print the microseconds per call of the small calls that a reconstruction
probe and a one-point path evaluation are made of, and of one integrator
pass, so that two checkouts can be compared on their cost per call:

    python tools/call_costs.py [src-dir] [--repeat N]

src-dir is the holonome source tree to import (default: this checkout's
src).  Each figure is the best of N timeit repeats (default 7) of 1000
calls, all in one process.  The calls:

- path_point on a straight line and on a circular arc;
- _line_segment, which builds one straight probe path;
- GroupElement of an SO(2) and of an SO(3) matrix, with its checks;
- frobenius and _check_branch of a 3x3 matrix;
- _probes of one unit vector, which builds its one centred probe path,
  x - hv -> x + hv;
- an arc's Segment.point_at, a one-point program run;
- _rk4_pass of one 1000-step arc from the identity, on abelian-area(1.5)
  (SO(2), whose steps are angles) and on constant-so3(0.8,0.6): the field
  on 2001 points, then the step and product layer, fine and coarse.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER = 1000


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

    def rk4_pass(name):
        conn = hn.builtin_connection(name)
        return lambda: transport._rk4_pass(conn, arc.segments, 1000, np.eye(conn.group.k)[None])

    return [
        ("path_point line", lambda: hn.path_point(line, 0.5)),
        ("path_point arc", lambda: hn.path_point(arc, 0.5)),
        ("_line_segment", lambda: paths._line_segment(0, coords, step)),
        ("GroupElement SO(2)", lambda: hn.GroupElement(r2, so2)),
        ("GroupElement SO(3)", lambda: hn.GroupElement(r3, so3)),
        ("frobenius", lambda: groups.frobenius(r3)),
        ("_check_branch", lambda: groups._check_branch(r3)),
        ("_probes", lambda: reconstruction._probes(at, unit, 1e-3)),
        ("Segment.point_at arc", lambda: arc.segments[0].point_at(0.3)),
        ("_rk4_pass SO(2) n=1000", rk4_pass("abelian-area(1.5)")),
        ("_rk4_pass SO(3) n=1000", rk4_pass("constant-so3(0.8,0.6)")),
    ]


def per_call_us(fn, repeat):
    """Best of `repeat` timeit repeats of NUMBER calls, in microseconds per
    call."""
    return min(timeit.Timer(fn).repeat(repeat, NUMBER)) / NUMBER * 1e6


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

    print(f"{'call':24s} {'us/call':>8s}")
    for name, fn in calls(hn):
        print(f"{name:24s} {per_call_us(fn, args.repeat):8.2f}")


if __name__ == "__main__":
    main(sys.argv)
