"""tools/call_costs.py: microseconds per call of the small calls a probe is
made of, and of one integrator pass."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_NAMES = (
    "path_point line",
    "path_point arc",
    "_line_segment",
    "GroupElement SO(2)",
    "GroupElement SO(3)",
    "frobenius",
    "_check_branch",
    "_probes",
    "Segment.point_at arc",
    "_rk4_pass SO(2) n=1000",
    "_rk4_pass SO(3) n=1000",
)


def test_every_call_is_timed_and_printed():
    """One repeat prints a positive figure for every call, in order."""
    out = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "call_costs.py"), str(_ROOT / "src"), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0].split() == ["call", "us/call"]
    rows = [line.rsplit(None, 1) for line in out[1:]]
    assert [name.strip() for name, _ in rows] == list(_NAMES)
    assert all(float(us) > 0.0 for _, us in rows)
