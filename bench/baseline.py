"""Time the single calls of ROADMAP's baseline table with this harness.

    python3 bench/baseline.py

One thread, one warm-up call, then the median and quartiles of REPEATS
timed calls of each item.  The loop is the levi-civita-s2-stereo
connection around arc_path(0, [0, 0], 0.7, 0, 2 pi), as in ROADMAP.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from workloads import ROOT  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
import holonome as hn  # noqa: E402

REPEATS = 7


def items():
    stereo = hn.builtin_connection("levi-civita-s2-stereo")
    pure = hn.builtin_connection("pure-gauge")
    abelian = hn.builtin_connection("abelian-area(1.5)")
    loop = hn.arc_path(0, [0.0, 0.0], 0.7, 0.0, 2.0 * np.pi)
    suite = hn.standard_axiom_suite(stereo)
    oracle = hn.engine_oracle(stereo)
    yield "transport, h = 1e-2", lambda: hn.transport(stereo, loop, hn.SolverConfig(h=1e-2))
    yield "transport, h = 1e-3", lambda: hn.transport(stereo, loop, hn.SolverConfig(h=1e-3))
    yield "transport, h = 1e-4", lambda: hn.transport(stereo, loop, hn.SolverConfig(h=1e-4))
    yield "transport, rk4-doubling, h = 1e-2", lambda: hn.transport(
        stereo, loop, hn.SolverConfig(method="rk4-doubling", h=1e-2))
    yield "roundtrip_report(abelian-area(1.5))", lambda: hn.roundtrip_report(abelian)
    yield "flatness_verdict, stereo", lambda: hn.flatness_verdict(stereo)
    yield "flatness_verdict, pure-gauge", lambda: hn.flatness_verdict(pure)
    yield "verify_axioms, stereo standard suite", lambda: hn.verify_axioms(oracle, suite)
    yield 'builtin_connection("levi-civita-s2-twochart")', lambda: hn.builtin_connection(
        "levi-civita-s2-twochart")


def main():
    print("| workload | q1 | median | q3 |")
    print("|---|---|---|---|")
    for label, call in items():
        call()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        q1, q2, q3 = statistics.quantiles(times, n=4)
        print(f"| `{label}` | {q1:.1f} ms | {q2:.1f} ms | {q3:.1f} ms |", flush=True)


if __name__ == "__main__":
    main()
