"""Print the minor page faults and the wall time per operation of each
benchmark workload, so that two checkouts can be compared on how much
memory their operations fault in:

    python tools/page_faults.py [src-dir] [--rounds N] [--seed S] [--workload NAME]

src-dir is the holonome source tree to import (default: this checkout's
src).  The workloads are the benchmark's own (bench/workloads.py, imported
as they are), all of them or only the one --workload names, built once
each; one warm-up round runs first, then N rounds (default 5) are
counted.  Faults are this process's minor faults
(getrusage RUSAGE_SELF ru_minflt) over each operation's call alone, not
over its check.  A fault is a page the process touched for the first time
since it was mapped, so the count shows memory that is given back to the
system and mapped again between operations.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def per_op(hn, workload, rounds):
    """Minor page faults and milliseconds per operation of `workload` (a
    bench/workloads.py workload) over `rounds` rounds after one warm-up
    round.  Raises RuntimeError if an operation's check fails."""
    ops = workload.build(hn)
    faults = seconds = 0.0
    for k in range(rounds + 1):
        for op in ops:
            f0, t0 = _minor_faults(), time.perf_counter()
            out = op.run()
            dt, df = time.perf_counter() - t0, _minor_faults() - f0
            err = op.check(out)
            if err:
                raise RuntimeError(f"{op.label}: {err}")
            if k:
                faults += df
                seconds += dt
    errors = workload.final_checks(hn) if hasattr(workload, "final_checks") else []
    if errors:
        raise RuntimeError("; ".join(errors))
    n = rounds * len(ops)
    return faults / n, seconds * 1e3 / n


def load_workloads():
    """bench/workloads.py's table of workload classes."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    return WORKLOADS


def main(argv):
    # one thread, as the benchmark runs: pin BLAS before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(workloads))
    args = parser.parse_args(argv[1:])
    if args.workload:
        workloads = {args.workload: workloads[args.workload]}
    sys.path.insert(0, str(Path(args.src).resolve()))
    import holonome as hn

    print(f"{'workload':20s} {'faults/op':>10s} {'ms/op':>8s}")
    for name, cls in workloads.items():
        faults, ms = per_op(hn, cls(args.seed), args.rounds)
        print(f"{name:20s} {faults:10.1f} {ms:8.2f}")


if __name__ == "__main__":
    main(sys.argv)
