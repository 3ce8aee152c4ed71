"""Print, for each builtin connection at n = 50 and n = 1000 steps, how
many paths one pass of the integrator takes (transport._batch_size) and
the peak bytes per grid point that one such pass allocates:

    python tools/pass_memory.py [src-dir]

src-dir is the holonome source tree to import (default: this checkout's
src).  Each pass runs over the members of one of the chart's three canned
homotopy families (flatness_verdict's), and the row shows the pass, of
the three, with the largest peak.  The peak is tracemalloc's, over one
_rk4_pass call after a warm-up pass, less what was allocated before it;
a grid point is one of the 2n + 1 of one path.  _batch_size counts against
transport._BATCH_FLOATS numbers of 8 bytes, so a pass of that many paths
should peak within 8 _BATCH_FLOATS bytes, less the numbers that do not
grow with the grid: the paths' products, their estimates and the step
parameters.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEP_COUNTS = (50, 1000)


def pass_peak(conn, n, continuing=False):
    """(paths, peak bytes) of the largest of three passes of n steps, each
    over _batch_size members of one of the chart's canned homotopy
    families, at s evenly spaced in (0, 1], so that the family's program
    runs on all of them at once.  With continuing, each pass continues a
    doubling: it takes the products and grids of an n/2-step pass over the
    same members, stacked afresh, as transport's driver hands them on."""
    import numpy as np

    module = sys.modules["holonome.transport"]
    chart, k = conn.charts[0], conn.group.k
    worst = (0, 0)
    for family in chart._homotopy_families:
        tagged = [family.member(1.0).segments[0]]
        count = module._batch_size(conn, chart.chart_id, n, continuing, tagged)
        pieces = [family.member((j + 1) / count).segments[0] for j in range(count)]
        U = np.broadcast_to(np.eye(k), (count, k, k)).copy()
        half = module._rk4_pass(conn, pieces, n // 2, U) if continuing else None
        module._rk4_pass(conn, pieces, n, U)  # compiles what the pass runs
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prev = None if half is None else (half[0], half[2].copy(), half[3].copy())
            module._rk4_pass(conn, pieces, n, U, prev)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        worst = max(worst, (peak, count))
    return worst[1], worst[0]


def main(argv):
    # one thread, as the benchmark runs: pin BLAS before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = argv[1] if len(argv) > 1 else str(ROOT / "src")
    sys.path.insert(0, str(Path(src).resolve()))
    import holonome as hn
    from holonome.connection import BUILTIN_NAMES

    print(f"{'connection':24s} {'n':>5s} {'paths':>6s} {'bytes/point':>12s}")
    for name in BUILTIN_NAMES:
        conn = hn.builtin_connection(name.split("(")[0])
        for n in STEP_COUNTS:
            count, peak = pass_peak(conn, n)
            print(f"{name.split('(')[0]:24s} {n:5d} {count:6d} {peak / (count * (2 * n + 1)):12.1f}")


if __name__ == "__main__":
    main(sys.argv)
