"""The benchmark's span tracer (bench/tracing.py) finds the functions and
methods it wraps by name; a rename in holonome must fail here, not only
in ``bench/run.py --trace 1``."""

import os
import sys

import numpy as np

import holonome
from holonome.paths import ChartPoint, line_path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
from tracing import Tracer  # noqa: E402


def test_tracer_records_spans_of_the_hooked_functions():
    conn = holonome.builtin_connection("levi-civita-s2-twochart")
    # walks out of chart 0's box, so the transition map and gauge are used
    gamma = line_path(ChartPoint(0, [3.5, 0.4]), np.array([5.0, 0.4]))
    tracer = Tracer()
    tracer.install()
    try:
        # called through the package namespace, which the tracer patches
        holonome.transport(conn, gamma, holonome.SolverConfig(h=1e-2))
        holonome.is_flat(conn, samples=3)
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i][1] for i in np.unique(tracer.arrays()["function"])}
    assert {
        "evaluate_many", "evaluate_dual_many", "map_coords", "gauge_at",
        "value", "value_and_grad", "transport", "is_flat",
    } <= recorded
