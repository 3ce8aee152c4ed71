"""tools/compile_counts.py: exprs.Program compiles per warm operation of
the benchmark's workloads, by call site."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_OPERATIONS = [f"forward_loops {v}" for v in ("latitude", "twochart", "abelian", "rectangle", "doubling")]
_OPERATIONS.append("lab_scenarios rotation")


def test_every_operation_is_counted_by_call_site():
    """The header, then one total per forward_loops variant and for one
    lab_scenarios rotation, in order, each followed by its call sites,
    whose counts add up to it; a warm two-chart holonomy compiles
    nothing."""
    out = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "compile_counts.py"), str(_ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert out[0].split() == ["operation", "compiles"]
    totals, sites = {}, {}
    for line in out[1:]:
        name, count = line.rsplit(None, 1)
        if line.startswith("  "):
            sites[label] += int(count)
        else:
            label = name.strip()
            totals[label], sites[label] = int(count), 0
    assert list(totals) == _OPERATIONS
    assert totals == sites
    assert totals["forward_loops twochart"] == 0
