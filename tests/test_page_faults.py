"""tools/page_faults.py: minor faults and time per operation of a
benchmark workload."""

import importlib.util
from pathlib import Path

import holonome

_PATH = Path(__file__).resolve().parents[1] / "tools" / "page_faults.py"
_SPEC = importlib.util.spec_from_file_location("page_faults", _PATH)
page_faults = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(page_faults)


def test_one_forward_loops_round_is_counted():
    """One counted round of forward_loops after its warm-up: every
    operation passes its benchmark check, and the figures per operation
    are a count and a time."""
    workload = page_faults.load_workloads()["forward_loops"](1)
    faults, ms = page_faults.per_op(holonome, workload, 1)
    assert faults >= 0.0
    assert ms > 0.0
