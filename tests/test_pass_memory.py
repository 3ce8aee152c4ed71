"""tools/pass_memory.py: the paths one pass takes and what that pass
allocates, against the budget transport._batch_size counts with."""

import importlib.util
import sys
from pathlib import Path

import holonome
import pytest
from holonome.connection import BUILTIN_NAMES, builtin_connection

from test_transport import gl2_connection

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pass_memory.py"
_SPEC = importlib.util.spec_from_file_location("pass_memory", _PATH)
pass_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pass_memory)

# what does not grow with the paths' grids: per path, their products,
# estimates and step sizes, as numpy arrays and Python floats; per pass,
# its grid of 2n + 1 parameters (16 KiB at n = 1000) and what indexes it
_PER_PATH_SLACK = 256
_PASS_SLACK = 64 * 1024

CONNECTIONS = {name.split("(")[0]: builtin_connection(name.split("(")[0]) for name in BUILTIN_NAMES}
CONNECTIONS["gl2"] = gl2_connection()


@pytest.mark.parametrize(
    "name, n, continuing",
    [(name, n, False) for name in CONNECTIONS for n in pass_memory.STEP_COUNTS]
    + [(name, 100, True) for name in ("abelian-area", "constant-so3", "pure-gauge", "gl2")],
)
def test_a_pass_of_batch_size_paths_peaks_within_the_budget(name, n, continuing):
    """One pass over _batch_size members of one homotopy family, or a pass
    that continues a doubling from n/2 steps, allocates at its peak no
    more than _BATCH_FLOATS numbers of 8 bytes, plus the slack of what
    does not grow with the grids, for each of the chart's canned
    families."""
    module = sys.modules["holonome.transport"]
    paths, peak = pass_memory.pass_peak(CONNECTIONS[name], n, continuing)
    assert paths >= 1
    assert peak <= 8 * module._BATCH_FLOATS + _PER_PATH_SLACK * paths + _PASS_SLACK


def test_main_prints_every_builtin_at_both_step_counts(monkeypatch, capsys):
    """The header, then one row per builtin and step count: the builtin's
    name, n, a path count of at least one and the bytes per grid point."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main pins them; restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    pass_memory.main(["pass_memory.py", str(Path(holonome.__file__).parents[1])])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["connection", "n", "paths", "bytes/point"]
    cells = [row.split() for row in rows]
    expected = [(name.split("(")[0], str(n)) for name in BUILTIN_NAMES
                for n in pass_memory.STEP_COUNTS]
    assert [tuple(c[:2]) for c in cells] == expected
    assert all(int(c[2]) >= 1 and float(c[3]) > 0.0 for c in cells)
