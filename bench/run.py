"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload forward_loops --seed 1 --seconds 20 --trace 0

The closed loop runs whole rounds of the workload's rotation until the
rounds have taken --seconds in all.  Every output is checked against the references in
references.py, outside the timed region.

--trace 0 reports the end-to-end metrics: setup_s, peak_rss_mb, and the
cost of an operation in units of a fixed reference kernel timed right after
it (op_cost_p50, op_cost_mean).  The host's speed drifts by up to 2x within
minutes and the kernel drifts with it, so the ratio repeats where wall time
does not.  The run falls into SETUP_SAMPLES equal stretches of rounds, each
after a fresh set-up timed against the kernel; setup_s is their median
cost, in seconds at REF_KERNEL_S per kernel.  Wall-time figures go to
standard error.

--trace 1 alternates untraced rounds with rounds under span wrappers on
holonome's public functions (see tracing.py).  It reports per-operation
layer metrics from the traced rounds, plus trace.overhead_ms: the median,
over operations, of traced minus untraced time.
"""

import os

# one process, one thread: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402  (imported before the set-up clock starts)

from workloads import OUT_DIR, ROOT, WORKLOADS  # noqa: E402

SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
# The kernel's median time on the machine the reference figures in
# README.md come from; it only scales setup_s into seconds.
REF_KERNEL_S = 2.6e-3

# The reference kernel: fixed numpy and interpreter work of the same kind as
# holonome's inner loops (2x2 products with renormalisation).
_REF_MATRIX = np.array([[0.6, -0.8], [0.8, 0.6]]) * 1.01


def reference_kernel():
    m = np.eye(2)
    for _ in range(500):
        m = _REF_MATRIX @ m
        m = m / np.abs(m).max()
    return m


def kernel_time():
    """Median wall time of fifteen runs of the reference kernel."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_fresh():
    """Import holonome from source, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "holonome" or n.startswith("holonome.")]:
        del sys.modules[name]
    return importlib.import_module("holonome")


class Tally:
    """What a run produced: durations of the operations that returned,
    untraced and traced apart; each untraced duration over the reference
    kernel's time measured right after it; set-up costs; failures and check
    errors."""

    def __init__(self):
        self.plain, self.costs, self.refs, self.traced = [], [], [], []
        self.setup_costs, self.errors = [], []
        self.attempted = self.failed = 0


def set_up(workload, tally):
    """Import holonome afresh, build one round of operations and run the
    first of them as a warm-up.  Returns the module, the round and the wall
    time from before the import to the end of the warm-up."""
    gc.collect()
    t0 = time.perf_counter()
    hn = _import_fresh()
    ops = workload.build(hn)
    warm = ops[0].run()
    dt = time.perf_counter() - t0
    err = ops[0].check(warm)
    if err:
        tally.errors.append(f"warm-up {ops[0].label}: {err}")
    return hn, ops, dt


def sample_set_up(workload, tally):
    """One set-up, its time divided by the kernel's, timed on either side
    of it."""
    before = kernel_time()
    hn, ops, dt = set_up(workload, tally)
    tally.setup_costs.append(2.0 * dt / (before + kernel_time()))
    return hn, ops


def run_round(ops, tally, tracer=None):
    """One pass over the rotation, each operation timed on its own and
    checked outside its timed interval."""
    for op in ops:
        if tracer is not None:
            tracer.op_id = tally.attempted
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # counted as a failed operation, the run goes on
            tally.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        if tracer is None:
            t1 = time.perf_counter()
            reference_kernel()
            ref = time.perf_counter() - t1
            tally.plain.append(dt)
            tally.refs.append(ref)
            tally.costs.append(dt / ref)
        else:
            tally.traced.append(dt)
        err = op.check(out)
        if err:
            tally.errors.append(f"{op.label}: {err}")


def measure(workload, seconds, tally):
    """Closed loop over whole rounds for `seconds` of rounds in all, in
    SETUP_SAMPLES stretches.  Each stretch starts with a fresh set-up and
    runs the round it built, so the set-up samples spread over the run as
    the operations do.  Returns the last set-up's module."""
    spent = 0.0
    for k in range(1, SETUP_SAMPLES + 1):
        hn, ops = sample_set_up(workload, tally)
        while spent < seconds * k / SETUP_SAMPLES:
            t0 = time.perf_counter()
            run_round(ops, tally)
            spent += time.perf_counter() - t0
    return hn


def measure_traced(ops, seconds, tally, tracer):
    """Closed loop over whole rounds until `seconds` have passed, untraced
    and traced rounds alternating, so both see the same machine."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run_round(ops, tally)
        tracer.install()
        run_round(ops, tally, tracer)
        tracer.uninstall()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "holonome", "__init__.py")):
        print(f"holonome sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    # The first set-up also compiles bytecode and loads holonome's standard
    # library dependencies, once per process; it is not one of the samples.
    hn, ops, _ = set_up(workload, tally)

    if args.trace:
        from tracing import Tracer, unit_of

        tracer = Tracer()
        measure_traced(ops, args.seconds, tally, tracer)
        tracer.save(os.path.join(OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.npz"))
        values = tracer.layer_metrics(len(tally.traced))
        metrics = {name: metric(v, unit_of(name)) for name, v in values.items()}
        # rounds alternate, so each traced duration pairs with the same
        # operation in the untraced round just before it
        overhead = statistics.median(t - p for p, t in zip(tally.plain, tally.traced))
        metrics["trace.overhead_ms"] = metric(overhead * 1e3, "ms")
    else:
        hn = measure(workload, args.seconds, tally)
        metrics = {
            "setup_s": metric(statistics.median(tally.setup_costs) * REF_KERNEL_S, "s"),
            "op_cost_p50": metric(statistics.median(tally.costs), "ref"),
            "op_cost_mean": metric(statistics.fmean(tally.costs), "ref"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"wall time: op_ms_p50 {statistics.median(tally.plain) * 1e3:.4g}, "
              f"ops_per_s {len(tally.plain) / sum(tally.plain):.4g}, "
              f"reference kernel {statistics.median(tally.refs) * 1e3:.4g} ms", file=sys.stderr)

    errors = tally.errors

    if hasattr(workload, "final_checks"):
        errors += workload.final_checks(hn)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
