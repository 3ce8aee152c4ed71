"""Print how many exprs.Program compiles one warm operation makes, and
where: each variant of the benchmark's forward_loops workload, and one
rotation of its lab_scenarios workload.

    python tools/compile_counts.py [src-dir]

src-dir is the holonome source tree to import (default: this checkout's
src).  The operations are the ones bench/workloads.py builds (seed 1),
which this script only reads.  Each operation runs once to warm up, then
once more with a counter on exprs.Program.__init__.  A compile's call
site is the first frame outside exprs.py and functools, named by module
and qualified function, followed by its caller.
"""

from __future__ import annotations

import collections
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def call_site(frame):
    """'module.function < module.function' of the first frame outside
    exprs.py and functools, and its caller."""
    names = []
    while frame is not None and len(names) < 2:
        path = Path(frame.f_code.co_filename)
        if path.name not in ("exprs.py", "functools.py"):
            names.append(f"{path.stem}.{frame.f_code.co_qualname}")
        frame = frame.f_back
    return " < ".join(names)


def counted(hn, run):
    """run() once, and a Counter of the call sites of its compiles."""
    program = sys.modules["holonome.exprs"].Program
    original = program.__init__
    sites = collections.Counter()

    def counting(self, *args, **kwargs):
        sites[call_site(sys._getframe(1))] += 1
        original(self, *args, **kwargs)

    program.__init__ = counting
    try:
        run()
    finally:
        program.__init__ = original
    return sites


def report(label, sites):
    print(f"{label:32s} {sum(sites.values()):5d}")
    for site, count in sorted(sites.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {site:60s} {count:5d}")


def main(argv):
    # one thread, as the benchmark runs: pin BLAS before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = argv[1] if len(argv) > 1 else str(ROOT / "src")
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "bench"))
    import holonome as hn
    import workloads

    print(f"{'operation':32s} {'compiles':>5s}")
    for op in workloads.ForwardLoops(SEED).build(hn):
        op.run()
        report(f"forward_loops {op.label}", counted(hn, op.run))
    lab = workloads.LabScenarios(SEED)
    try:
        ops = lab.build(hn)

        def rotation():
            for op in ops:
                op.run()

        rotation()
        report("lab_scenarios rotation", counted(hn, rotation))
    finally:
        shutil.rmtree(lab.run_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv)
