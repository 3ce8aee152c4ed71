"""tools/page_faults.py: minor faults and time per operation of a
benchmark workload."""

import importlib.util
import sys
from pathlib import Path

import holonome
import pytest

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


def test_workload_option_counts_that_workload_alone(monkeypatch, capsys):
    """--workload NAME prints the header and the one row of NAME; a name
    the benchmark does not declare is refused."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main pins them; restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    page_faults.main(["page_faults.py", "--workload", "forward_loops", "--rounds", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "faults/op", "ms/op"]
    assert [row.split()[0] for row in rows] == ["forward_loops"]
    with pytest.raises(SystemExit):
        page_faults.main(["page_faults.py", "--workload", "no_such_workload"])
